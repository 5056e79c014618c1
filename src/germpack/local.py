"""Local germ improvement of avoiding strings.

Between two fixed boundary contexts of width norm (the largest forbidden
distance) there is a unique germ-maximal filling of any patch length at
least norm; rewriting a patch to that filling never decreases the germ of
the whole string and keeps it avoiding, because bits further than norm from
the patch cannot clash with it.  Sweeping the rewrite over all positions
terminates (every change is a strict, exact germ increase over finitely
many strings, which the sweep checks at each change) in a string no single
patch rewrite can improve.  One sweep computes the best filling of each
distinct pair of contexts once and reuses it for the rest of the call.
It runs on an int mask: bit strings appear only at the API boundary.

Fixpoints of the sweep are not known to be winners, but certified winners
are fixpoints: every interior window of a winner must already contain the
best filling for its contexts, which `winner_windows_consistent` checks.

`LineKernel` is the one germ-best-string dynamic program in the library:
`search` reads its germ-best strings and its two-block challengers off it.
Its states are the shadows of `sets._WindowModel`, the positions ahead that
the 1s placed forbid.  The kernel drops a shadow whose new 1 loses to its
clashing sibling's 0; `LineKernel` says why that is exact.  A patch, whose
length and right context are known, runs the kernel's shadows from the left
context's, bounded at both ends (`_patch_run`): no 1 that meets the right
context, and shadows merged once they agree on every position left in the
patch, so one entry is left.
"""

from __future__ import annotations

from dataclasses import dataclass

from .germs import EQUAL, GREATER, _sign_near_one
from .sets import (
    DistanceSet, RationalSet, _check_bits, _check_natural, _mask_avoids, _to_bits, _to_mask,
)
from .sets import MAX_WINDOW_BITS  # noqa: F401  the kernel's cap, still named here


def _entry(mask: int) -> tuple[int, int, int]:
    """The (mask, ones, position-sum) entry `germ_greater` compares."""
    ones = [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]
    return mask, len(ones), sum(ones)


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
    """The germ-best avoiding filling of every shadow, grown bit by bit.

    The state is a shadow of `sets._WindowModel`: two fillings with one
    shadow admit the same continuations, and whichever of two equal-length
    fillings is germ-greater stays so under any common extension, so one
    entry (mask, ones, position-sum) per shadow suffices.  The run starts
    from shadow 0: no 1s before position 0.

    Shadows s and s | 1 (s even) both shift to s >> 1; only s can take a 1,
    making s >> 1 | grow, which is dropped when germ-lower than the entry of
    s | 1.  Exact: s >> 1 is a subset of that shadow, so any continuation of
    the 1, `best`'s right context included, also follows s | 1, from a
    greater entry.  A shadow has norm bits, so 2**norm of them is a ceiling.
    A patch, whose length and right context are known, runs `_patch_run`
    instead.
    """

    def __init__(self, distances: DistanceSet):
        self.model = distances._windows
        self.length = 0
        self.states = {0: (0, 0, 0)}

    def advance(self, steps: int) -> LineKernel:
        """Append `steps` positions; raises ValueError before passing MAX_WINDOW_BITS."""
        model = self.model
        most, grow = model.most, model.grow
        for _ in range(steps):
            pos, states = self.length, self.states
            if len(states) > most:
                model.refuse(len(states), pos + 1)
            bit = 1 << pos
            new: dict[int, tuple[int, int, int]] = {}
            for shadow, entry in states.items():
                shifted = shadow >> 1
                cur = new.get(shifted)
                if cur is None or (  # germ_greater, count and position sum inline
                    entry[1] > cur[1] if entry[1] != cur[1]
                    else entry[2] < cur[2] if entry[2] != cur[2]
                    else germ_greater(entry, cur)
                ):
                    new[shifted] = entry
                if not shadow & 1:
                    mask, ones, possum = entry
                    entry = (mask | bit, ones + 1, possum + pos)
                    rival = states.get(shadow | 1)  # shifts to `shifted` with a 0
                    if rival is not None and (  # germ_greater(rival, entry) inline
                        rival[1] > entry[1] if rival[1] != entry[1]
                        else rival[2] < entry[2] if rival[2] != entry[2]
                        else germ_greater(rival, entry)
                    ):
                        continue
                    shifted |= grow
                    cur = new.get(shifted)
                    if cur is None or (  # germ_greater, count and position sum inline
                        entry[1] > cur[1] if entry[1] != cur[1]
                        else entry[2] < cur[2] if entry[2] != cur[2]
                        else germ_greater(entry, cur)
                    ):
                        new[shifted] = entry
            self.states = new
            self.length += 1
        return self

    def best(self, right: int = 0) -> tuple[int, int, int]:
        """The germ-best entry whose shadow meets no 1 of `right`.

        Bit j of `right` is position length + j.  Shadow 0, the all-zero
        filling's, is never dropped and always fits.
        """
        best = None
        for shadow, entry in self.states.items():
            if shadow & right:
                continue
            if best is None or (  # germ_greater, count and position sum inline
                entry[1] > best[1] if entry[1] != best[1]
                else entry[2] < best[2] if entry[2] != best[2]
                else germ_greater(entry, best)
            ):
                best = entry
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
        _check_natural(self.patch_length, "patch length")


def best_patch(context: PatchContext, distances: DistanceSet) -> str:
    """The unique germ-maximal filling of the gap that keeps it avoiding.

    The line kernel's windows run across the patch from the left context,
    never placing a 1 that meets the right context, and merged once they
    agree on every bit that can still clash (`_patch_run`).  Violations
    wholly inside a fixed context are not the patch's business and are
    ignored, so the all-zero filling is always feasible and a best filling
    always exists.
    """
    norm = distances.norm
    if len(context.left) != norm:
        raise ValueError(f"context width {len(context.left)} != largest distance {norm}")
    length = context.patch_length
    refill = _patch_filler(distances, length)
    whole = _to_mask(context.left + "0" * length + context.right)
    return _to_bits(refill(whole, norm), length + 2 * norm)[norm: norm + length]


def _patch_filler(distances: DistanceSet, patch_length: int):
    """`refill(mask, position)`: the patch at `position` rewritten to the best
    filling for its contexts, the norm bits either side, each pair computed once.

    Checks the patch length up front.  The memo lives only as long as the
    returned function, which serves one call of the functions below.
    """
    if _check_natural(patch_length, "patch length") < distances.norm:
        raise ValueError("patch length must be at least the largest distance")
    norm = distances.norm
    width, hole = (1 << norm) - 1, (1 << patch_length) - 1
    fillings: dict[tuple[int, int], int] = {}
    run = None  # built on the first miss: a string too short for a patch never needs it

    def refill(mask: int, position: int) -> int:
        nonlocal run
        left = mask >> (position - norm) & width
        right = mask >> (position + patch_length) & width
        patch = fillings.get((left, right))
        if patch is None:
            run = run or _patch_run(distances, patch_length)
            patch = fillings[left, right] = run(left, right)[0]
        return mask & ~(hole << position) | patch << position

    return refill


def _patch_run(distances: DistanceSet, length: int):
    """`run(left, right)`: the germ-best (mask, ones, position-sum) entry of
    the avoiding fillings of `length` (at least norm) positions between two
    context windows, bit j of `right` being position length + j.

    The line kernel's shadows, from the left context's, bounded at both
    ends.  A 1 never goes where it would meet `right`, so no filling is
    checked at the end.  A shadow bit past the patch's last position is
    dropped (`_WindowModel.live`), and shadows that then agree are merged,
    keeping the germ-greater entry: they admit the same continuations, and
    the germ order survives a common extension.  No bit is live after the
    last step, so one entry is left.  The cap check is the kernel's.
    """
    model, norm = distances._windows, distances.norm
    most, grow = model.most, model.grow
    steps = [(pos, 1 << pos, model.live(length - pos - 1)) for pos in range(length)]

    def run(left: int, right: int) -> tuple[int, int, int]:
        start = forbidden = 0
        for d in distances:  # left's shadow; bit p of forbidden is set iff p + d is in `right`
            start |= (left << d) >> norm
            forbidden |= (right << length) >> d
        states = {start: (0, 0, 0)}
        for pos, bit, live in steps:
            if len(states) > most:
                model.refuse(len(states), pos + 1)
            fits = not forbidden & bit
            new: dict[int, tuple[int, int, int]] = {}
            for shadow, entry in states.items():
                shifted = shadow >> 1 & live
                cur = new.get(shifted)
                if cur is None or (  # germ_greater, count and position sum inline
                    entry[1] > cur[1] if entry[1] != cur[1]
                    else entry[2] < cur[2] if entry[2] != cur[2]
                    else germ_greater(entry, cur)
                ):
                    new[shifted] = entry
                if fits and not shadow & 1:
                    mask, ones, possum = entry
                    entry = (mask | bit, ones + 1, possum + pos)
                    shifted = (shifted | grow) & live
                    cur = new.get(shifted)
                    if cur is None or (  # germ_greater, count and position sum inline
                        entry[1] > cur[1] if entry[1] != cur[1]
                        else entry[2] < cur[2] if entry[2] != cur[2]
                        else germ_greater(entry, cur)
                    ):
                        new[shifted] = entry
            states = new
        return states[0]

    return run


def improve_at(bits: str, position: int, patch_length: int, distances: DistanceSet) -> str:
    """Rewrite the patch at `position` to the best filling for its contexts.

    The result's germ is at least the input's, strictly greater when the
    patch changes, and the result is still avoiding.  Positions too close to
    the ends to carry full contexts are rejected.
    """
    mask = _to_mask(_check_bits(bits, "indicator string"))
    if not _mask_avoids(mask, distances):
        raise ValueError("input string must avoid the distances")
    refill = _patch_filler(distances, patch_length)  # checks the patch length
    _check_natural(position, "position", 0)
    if position < distances.norm or position + patch_length + distances.norm > len(bits):
        raise ValueError(f"position {position} out of range for patch rewriting")
    return _to_bits(refill(mask, position), len(bits))


def sweep_to_fixpoint(bits: str, patch_length: int, distances: DistanceSet) -> str:
    """Apply patch rewrites until a full pass changes nothing.

    Round-robin over every position with full contexts.  The result is
    patch-maximal: no single rewrite at any such position can improve it,
    and its germ dominates the input's.  Each context's best filling is
    computed once.
    """
    current = _to_mask(_check_bits(bits, "indicator string"))
    if not _mask_avoids(current, distances):
        raise ValueError("input string must avoid the distances")
    refill = _patch_filler(distances, patch_length)
    positions = range(distances.norm, len(bits) - patch_length - distances.norm + 1)
    changed = True
    while changed:
        changed = False
        for position in positions:
            replaced = refill(current, position)
            if replaced != current:
                _check_rewrite(current, replaced, position, patch_length, distances)
                current = replaced
                changed = True
    return _to_bits(current, len(bits))


def _check_rewrite(old, new, position, patch_length, distances):
    """Raise unless the rewrite raised the germ and kept the mask avoiding.

    The strict rise is what ends the sweep.  Only pairs within norm of the
    patch can clash, so the patch and its contexts suffice.
    """
    norm, hole = distances.norm, (1 << patch_length) - 1
    if not germ_greater(_entry(new >> position & hole), _entry(old >> position & hole)):
        raise AssertionError(f"patch rewrite at {position} did not raise the germ")
    span = new >> (position - norm) & ((1 << (patch_length + 2 * norm)) - 1)
    if not _mask_avoids(span, distances):
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
    window = _to_mask(winner.bits(span))
    refill = _patch_filler(distances, patch_length)
    return all(
        refill(window, position) == window for position in range(norm, pre + rep + norm + 1)
    )
