"""Local germ improvement of avoiding strings.

Between two fixed boundary contexts of width norm (the largest forbidden
distance) there is a unique germ-maximal filling of any patch length at
least norm; rewriting a patch to that filling never decreases the germ of
the whole string and keeps it avoiding, because bits further than norm from
the patch cannot clash with it.  Sweeping the rewrite over all positions
terminates (every change is a strict, exact germ increase over finitely
many strings, which the sweep checks at each change) in a string no single
patch rewrite can improve.  One sweep computes the best filling of each
distinct pair of contexts once, and runs the kernel once for each distinct
shadow those pairs cast, reusing both for the rest of the call.
It runs on an int mask: bit strings appear only at the API boundary.

Fixpoints of the sweep are not known to be winners, but certified winners
are fixpoints: every interior window of a winner must already contain the
best filling for its contexts, which `winner_windows_consistent` checks.

`LineKernel` is the one germ-best-string dynamic program in the library,
over the shadows of `sets._WindowModel` (the positions ahead that the 1s
placed forbid); it records the best string of every length it steps
through, and `search` reads the strings of many lengths off it.  A patch,
whose length and right context are known, runs the kernel's step loop
(`_run_line`, one for both, sibling cut and all), bounded at both ends
(`_patch_run`): it starts from the shadow both contexts cast on the patch,
so no 1 meets either, and a 1 sets no shadow bit past the patch's last
position, so one entry is left.  `search` reads the string of one length
off a patch between all-zero contexts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

from .germs import EQUAL, GREATER, _sign_near_one
from .sets import (
    DistanceSet, RationalSet, _check_bits, _check_natural, _mask_avoids, _to_bits, _to_mask,
)


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


def _run_line(model, states: dict, start: int, grown_bits) -> dict:
    """The line DP's one step loop: `states`, shadow -> germ-best (mask,
    ones, position-sum) entry, grown by one position from `start` on for
    each item of `grown_bits`, the shadow bits a 1 there sets.

    A 0 shifts shadow s to s >> 1 and a 1, which fits in an even s, makes
    s >> 1 | grown.  Fillings with one shadow admit the same continuations,
    and the germ order survives a common extension, so one entry per shadow
    stays.  s and s | 1 both shift to s >> 1, a subset of the shadow the 1
    of s makes, so any continuation of that 1 also follows s | 1, and the 1
    is dropped when it loses to the entry of s | 1.  Refuses a step from
    more than `model.most` shadows.
    """
    most = model.most
    for pos, grown in enumerate(grown_bits, start):
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
                shifted |= grown
                cur = new.get(shifted)
                if cur is None or (  # germ_greater, count and position sum inline
                    entry[1] > cur[1] if entry[1] != cur[1]
                    else entry[2] < cur[2] if entry[2] != cur[2]
                    else germ_greater(entry, cur)
                ):
                    new[shifted] = entry
        states = new
    return states


class LineKernel:
    """The germ-best avoiding string of every length, grown bit by bit.

    `_run_line` from shadow 0 (no 1s before position 0), with every shadow
    bit kept, so any continuation may follow.  `bests[n]` is the germ-best
    (mask, ones, position-sum) entry after n positions, recorded as the run
    steps past n, so one kernel serves a call that asks many lengths in any
    order.  A shadow has norm bits, so 2**norm of them is a ceiling.  A
    patch, whose length and right context are known, runs `_patch_run`
    instead.
    """

    def __init__(self, distances: DistanceSet):
        self.distances = distances
        self.model = distances._windows
        self.states = {0: (0, 0, 0)}
        self.bests = [(0, 0, 0)]

    def entry(self, length: int) -> tuple[int, int, int]:
        """The length's germ-best entry; raises ValueError before passing MAX_WINDOW_BITS."""
        while len(self.bests) <= length:
            grown_bits = (self.model.grow,)
            self.states = _run_line(self.model, self.states, len(self.bests) - 1, grown_bits)
            self.bests.append(self.best())
        return self.bests[length]

    def best(self) -> tuple[int, int, int]:
        """The germ-best entry over every shadow."""
        best = None
        for entry in self.states.values():
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

    The line kernel's shadows run across the patch from the one both
    contexts cast, never placing a 1 that meets either, and merged once
    they agree on every bit that can still clash (`_patch_run`).  Violations
    wholly inside a fixed context are not the patch's business and are
    ignored, so the all-zero filling is always feasible and a best filling
    always exists.
    """
    norm = distances.norm
    if len(context.left) != norm:
        raise ValueError(f"context width {len(context.left)} != largest distance {norm}")
    length = context.patch_length
    if length < norm:
        raise ValueError("patch length must be at least the largest distance")
    run = _patch_run(distances, length)
    return _to_bits(run(_to_mask(context.left), _to_mask(context.right))[0], length)


def _patch_filler(distances: DistanceSet, patch_length: int):
    """`refill(mask, position)`: the patch at `position` rewritten to the best
    filling for its contexts, the norm bits either side, each distinct pair
    computed once and each distinct start shadow run once (`_patch_run`).

    Checks the patch length up front.  The memos live only as long as the
    returned function, which serves one call of the functions below.
    Nothing of patch-length size is built before the first miss, so a
    string too short for a patch of any length costs nothing.
    """
    if _check_natural(patch_length, "patch length") < distances.norm:
        raise ValueError("patch length must be at least the largest distance")
    norm = distances.norm
    width = (1 << norm) - 1
    fillings: dict[tuple[int, int], int] = {}
    run = hole = None

    def refill(mask: int, position: int) -> int:
        nonlocal run, hole
        left = mask >> (position - norm) & width
        right = mask >> (position + patch_length) & width
        patch = fillings.get((left, right))
        if patch is None:
            if run is None:
                run, hole = _patch_run(distances, patch_length), (1 << patch_length) - 1
            patch = fillings[left, right] = run(left, right)[0]
        return mask & ~(hole << position) | patch << position

    return refill


def _patch_run(distances: DistanceSet, length: int):
    """`run(left, right)`: the germ-best (mask, ones, position-sum) entry of
    the avoiding fillings of `length` positions between two context windows
    of norm bits, bit i of `left` being position i - norm and bit j of
    `right` position length + j; the length may be below the norm.

    `_run_line`, the kernel's loop, bounded at both ends.  The run starts
    from one shadow: the positions of the patch a forbidden distance from a
    1 of either context.  So no 1 meets `right`, no filling is checked at
    the end, and the sibling cut holds as in the kernel.  A 1 sets no
    shadow bit past the patch's last position
    (`_WindowModel.live`), so shadows that agree on the positions left merge
    as the run goes; a 0 needs no such mask, since a shadow that fits the
    positions left still fits them after the shift.  No bit is live after
    the last step, so one entry is left.

    Pairs that cast one start shadow allow the same fillings (those that
    avoid within the patch with no 1 on the shadow), so each distinct start
    shadow is run once, for as long as `run` lives.  Every step before the
    last norm keeps the whole of `grow`, so only the masked tail, at most
    norm steps, is listed, and a long one-length ask lists nothing of its
    length.
    """
    model, norm, whole = distances._windows, distances.norm, (1 << length) - 1
    full = max(length - norm, 0)  # the steps that keep every shadow bit live
    tail = [model.grow & model.live(length - pos - 1) for pos in range(full, length)]
    runs: dict[int, tuple[int, int, int]] = {}

    def run(left: int, right: int) -> tuple[int, int, int]:
        start = 0
        for d in distances:  # bit p is set iff p - d is in `left` or p + d in `right`
            start |= (left << d) >> norm | (right << length) >> d
        start &= whole
        entry = runs.get(start)
        if entry is None:
            grown_bits = chain(repeat(model.grow, full), tail)
            entry = runs[start] = _run_line(model, {start: (0, 0, 0)}, 0, grown_bits)[0]
        return entry

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
    refill = _patch_filler(distances, patch_length)  # checks the patch length, builds nothing
    _check_natural(position, "position", 0)
    if position < distances.norm or position + patch_length + distances.norm > len(bits):
        raise ValueError(f"position {position} out of range for patch rewriting")
    return _to_bits(refill(mask, position), len(bits))


def sweep_to_fixpoint(bits: str, patch_length: int, distances: DistanceSet) -> str:
    """Apply patch rewrites until a full pass changes nothing.

    Round-robin over every position with full contexts.  The result is
    patch-maximal: no single rewrite at any such position can improve it,
    and its germ dominates the input's.  Each context pair's best filling is
    computed once, by one kernel run per distinct start shadow.
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
