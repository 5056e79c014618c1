"""Local germ improvement of avoiding strings.

Between two fixed boundary contexts of width norm (the largest forbidden
distance) there is a unique germ-maximal filling of any patch length at
least norm; rewriting a patch to that filling never decreases the germ of
the whole string and keeps it avoiding, because bits further than norm from
the patch cannot clash with it.  Sweeping the rewrite over all positions
terminates (every change is a strict, exact germ increase over finitely
many strings) in a string no single patch rewrite can improve.

Fixpoints of the sweep are not known to be winners, but certified winners
are fixpoints: every interior window of a winner must already contain the
best filling for its contexts, which `winner_windows_consistent` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .germs import EQUAL, GREATER, IntPolynomial, poly_germ_compare
from .sets import DistanceSet, RationalSet, _check_bits, is_avoiding


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

    Dynamic program over the patch positions with the trailing norm bits as
    state; the right context prunes final states that would clash across the
    gap.  Violations wholly inside a fixed context are not the patch's
    business and are ignored, so the all-zero filling is always feasible and
    a best filling always exists.
    """
    norm = distances.norm
    if len(context.left) != norm:
        raise ValueError(f"context width {len(context.left)} != largest distance {norm}")
    length = context.patch_length
    if length < norm:
        raise ValueError("patch length must be at least the largest distance")
    dists = tuple(distances)

    states: dict[str, tuple[str, int, int]] = {context.left: ("", 0, 0)}
    for pos in range(length):
        new: dict[str, tuple[str, int, int]] = {}

        def offer(state, entry):
            cur = new.get(state)
            if cur is None or _entry_greater(entry, cur):
                new[state] = entry

        for window, (bits, ones, possum) in states.items():
            offer((window + "0")[-norm:] if norm else "", (bits + "0", ones, possum))
            if all(d > len(window) or window[-d] == "0" for d in dists):
                offer(
                    (window + "1")[-norm:] if norm else "",
                    (bits + "1", ones + 1, possum + pos),
                )
        states = new

    best = None
    for window, entry in states.items():
        if _cross_clash(window, context.right, dists):
            continue
        if best is None or _entry_greater(entry, best):
            best = entry
    if best is None:
        raise AssertionError("no feasible filling, yet all-zero is always feasible")
    return best[0]


def _cross_clash(left_bits: str, right_bits: str, dists) -> bool:
    """Any forbidden distance between a 1 on the left and a 1 on the right?"""
    width = len(left_bits)
    for i, bit in enumerate(left_bits):
        if bit != "1":
            continue
        for d in dists:
            j = i + d - width
            if 0 <= j < len(right_bits) and right_bits[j] == "1":
                return True
    return False


def _entry_greater(a, b) -> bool:
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
    _check_bits(bits, "indicator string")
    if not is_avoiding(bits, distances):
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
    _check_bits(bits, "indicator string")
    if not is_avoiding(bits, distances):
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
                current = replaced
                changed = True
    return current


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
