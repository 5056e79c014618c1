"""Local germ improvement of avoiding strings, and the line DP behind every
germ-best string.

Between two fixed boundary contexts of width norm (the largest forbidden
distance) there is a unique germ-maximal filling of any patch length at
least norm; rewriting a patch to it never decreases the germ of the whole
string and keeps it avoiding, because bits further than norm from the patch
cannot clash with it.  Sweeping the rewrite over all positions ends (each
change is a strict, exact germ increase, which the sweep checks) in a string
no single patch rewrite can improve.  Certified winners are such fixpoints
(`winner_windows_consistent`); fixpoints are not known to be winners.

The line DP steps the shadows of `sets._WindowModel`: `_run_line` is the
step and its sibling cut, `LineKernel` the open-ended run over compiled
shadow ids, `_patch_run` the run bounded by two contexts, and `_interleave`
the reduction of D to D/g, which `_sweep`, the one patch sweep, makes per
class.  Strings are int masks inside, bit i being position i; bit strings
appear only at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from math import comb

from .sets import (
    DistanceSet, RationalSet, _check_bits, _check_natural, _mask_avoids, _to_bits, _to_mask, is_avoiding,
)


def _positions(mask: int) -> list[int]:
    """The positions of the 1s of a mask, bit i being position i."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _entry(mask: int) -> tuple[int, int, int]:
    """The (mask, ones, position-sum) entry `germ_greater` compares."""
    ones = _positions(mask)
    return mask, len(ones), sum(ones)


def germ_greater(a, b) -> bool:
    """Germ order on equal-length (mask, ones, position-sum) entries.

    Bit i of the mask is position i, q**i = (1 - t)**i, so the t**k
    coefficient of the difference is (-1)**k times the sum of C(i, k) over
    the 1s of a only, less that over the 1s of b only.  Orders 0 and 1 are
    the count gap and the negated position-sum gap, which decide almost
    every comparison; a tie on both reads the later orders off the
    differing bits alone.
    """
    if a[1] != b[1]:
        return a[1] > b[1]
    if a[2] != b[2]:
        return a[2] < b[2]
    x, y = a[0], b[0]
    if x == y:
        return False
    plus, minus = _positions(x & ~y), _positions(y & ~x)
    for k in range(2, max(x, y).bit_length()):
        gap = 0
        for i in plus:
            gap += comb(i, k)
        for i in minus:
            gap -= comb(i, k)
        if gap:
            return (gap > 0) == (k % 2 == 0)
    raise AssertionError("distinct strings never tie")


def _run_line(model, states: dict, start: int, grown_bits) -> dict:
    """The line DP's step loop over a dict: `states`, shadow -> germ-best
    (mask, ones, position-sum) entry, grown by one position from `start` on
    for each item of `grown_bits`, the shadow bits a 1 there sets.

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

    `_run_line`'s step from shadow 0 with every shadow bit kept live, so any
    later length may follow, over a shadow automaton the kernel compiles for
    itself as it goes: each shadow gets an int id when first reached or named
    as a sibling (`_id`), and on its first step a successor tuple
    (`_compile`), the ids its 0, its 1 and its sibling s | 1 lead to (-1 for
    the last two when s is odd, where no 1 fits).  `layer` holds the live
    entries by id, None elsewhere, so a sibling that is not live is no rival,
    and `live` their ids.  Only the ids stepped from are compiled, never the
    closure, so a norm too large for the cap costs no more than the shadows
    visited and their siblings.

    `bests[n]` is the germ-best entry after n positions, taken in the pass
    that steps to n: a 0 leaves an entry as it was, so the best that ends in
    a 0 is the last best, and only an entry that ends in a new 1 can pass
    it.  So one kernel, which a call builds for itself, serves every length
    the call asks, in any order.  When g = gcd(D) > 1, `classes`, a kernel
    of D/g, steps instead (`_interleave`); `bests`, `entry` and `model` (the
    two-block walk reads its `grow`) stay D's.
    """

    def __init__(self, distances: DistanceSet):
        self.distances = distances
        self.model = distances._windows
        self.bests = [(0, 0, 0)]
        self.ids: dict = {}  # shadow -> id
        self.shadows: list = []  # id -> shadow
        self.succ: list = []  # id -> (zero, one, sibling), None until compiled
        self.layer: list = []
        self.spare: list = []  # the next layer, all None between steps
        self.live = [self._id(0)]
        self.layer[0] = (0, 0, 0)
        g, reduced = distances._classes
        self.classes = LineKernel(reduced) if g > 1 else None

    def entry(self, length: int) -> tuple[int, int, int]:
        """The length's germ-best entry; raises ValueError before passing MAX_WINDOW_BITS."""
        while len(self.bests) <= length:
            n = len(self.bests)
            if self.classes:
                self.bests.append(_interleave(self.distances, n, self.classes.entry))
            else:
                self.bests.append(self._step(n - 1))
        return self.bests[length]

    def _step(self, pos: int) -> tuple[int, int, int]:
        """Grow the live entries by position `pos` and return the germ-best."""
        live, layer, new = self.live, self.layer, self.spare
        if len(live) > self.model.most:
            self.model.refuse(len(live), pos + 1)
        succ, bit, best, fresh = self.succ, 1 << pos, self.bests[-1], []
        add = fresh.append
        for i in live:
            entry = layer[i]
            zero, one, sibling = succ[i] or self._compile(i)
            cur = new[zero]
            if cur is None:
                new[zero] = entry
                add(zero)
            elif (  # germ_greater, count and position sum inline
                entry[1] > cur[1] if entry[1] != cur[1]
                else entry[2] < cur[2] if entry[2] != cur[2]
                else germ_greater(entry, cur)
            ):
                new[zero] = entry
            if one < 0:
                continue
            mask, ones, possum = entry
            entry = (mask | bit, ones + 1, possum + pos)
            rival = layer[sibling]
            if rival is not None and (  # germ_greater(rival, entry) inline
                rival[1] > entry[1] if rival[1] != entry[1]
                else rival[2] < entry[2] if rival[2] != entry[2]
                else germ_greater(rival, entry)
            ):
                continue
            cur = new[one]
            if cur is None:
                add(one)
            elif not (  # germ_greater, count and position sum inline
                entry[1] > cur[1] if entry[1] != cur[1]
                else entry[2] < cur[2] if entry[2] != cur[2]
                else germ_greater(entry, cur)
            ):
                continue
            new[one] = entry
            if (  # germ_greater, count and position sum inline
                entry[1] > best[1] if entry[1] != best[1]
                else entry[2] < best[2] if entry[2] != best[2]
                else germ_greater(entry, best)
            ):
                best = entry
        for i in live:
            layer[i] = None
        self.layer, self.spare, self.live = new, layer, fresh
        return best

    def _compile(self, i: int) -> tuple[int, int, int]:
        """The successor tuple of id i, giving each shadow it names an id."""
        shadow = self.shadows[i]
        zero = self._id(shadow >> 1)
        step = self.succ[i] = (zero, -1, -1) if shadow & 1 else (
            zero, self._id(shadow >> 1 | self.model.grow), self._id(shadow | 1))
        return step

    def _id(self, shadow: int) -> int:
        """The shadow's id, a new one on first sight."""
        i = self.ids.get(shadow)
        if i is None:
            i = self.ids[shadow] = len(self.shadows)
            self.shadows.append(shadow)
            self.succ.append(None)
            self.layer.append(None)
            self.spare.append(None)
        return i


def _interleave(distances: DistanceSet, length: int, reduced_entry) -> tuple[int, int, int]:
    """D's germ-best entry of `length` positions from `reduced_entry(m)`,
    D/g's of m positions, g = gcd(D).

    No distance links positions in different residue classes mod g, so a
    D-avoiding set is g independent D/g-avoiding sets.  Class r's germ is
    q**r F(q**g), ordered as F(q) is, and a sum of germs keeps the order, so
    D's unique germ-best string puts on class r, the positions r + g·i,
    D/g's best of ceil((length - r) / g) positions (q + 1 for r < rem, else
    q), spread to stride g, which adds r·ones + g·position-sum.  The kernel,
    the one-length run (`_best_entry`) and every patch sweep whose patch
    length g divides (`_sweep`) step D/g; `best_patch` stays on D, where
    each context pair would split into g runs.
    """
    g = distances._classes[0]
    if g == 1:
        return reduced_entry(length)
    q, rem = divmod(length, g)
    mask = ones = possum = 0
    for first, count, m in ((0, rem, q + 1), (rem, g - rem, q)):  # classes first..first+count-1
        if count and m:
            sub_mask, sub_ones, sub_possum = reduced_entry(m)
            spread = int(("0" * (g - 1)).join(format(sub_mask, "b")), 2)  # bit i to bit g·i
            mask |= spread * ((1 << count) - 1) << first  # count <= g: no carries
            ones += count * sub_ones
            possum += count * g * sub_possum + sub_ones * count * (2 * first + count - 1) // 2
    return mask, ones, possum


def _best_entry(distances: DistanceSet, length: int) -> tuple[int, int, int]:
    """The germ-best entry of one length: D/g's patch run between all-zero
    contexts, interleaved."""
    reduced = distances._classes[1]
    return _interleave(distances, length, lambda m: _patch_run(reduced, m)(0, 0))


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
    run = _patch_run(distances, length)
    return _to_bits(run(_to_mask(context.left), _to_mask(context.right))[0], length)


def _patch_run(distances: DistanceSet, length: int):
    """`run(left, right)`: the germ-best (mask, ones, position-sum) entry of
    the avoiding fillings of `length` positions between two context windows
    of norm bits, bit i of `left` being position i - norm and bit j of
    `right` position length + j; the length may be below the norm.

    `_run_line` bounded at both ends.  It starts from one shadow, the patch
    positions a forbidden distance from a 1 of either context, so no 1 meets
    `right`, no filling is checked at the end, and the sibling cut holds as
    in the kernel.  A 1 sets no shadow bit past the patch's last position
    (`_WindowModel.live`), so shadows that agree on the positions left merge,
    and one entry is left after the last step; a 0 needs no mask, since a
    shadow that fits the positions left still fits them shifted.  Only the
    last norm steps mask `grow`, so only that tail is listed, and a long
    one-length ask lists nothing of its length.

    Pairs that cast one start shadow allow the same fillings, so each
    distinct start shadow is run once, for as long as `run` lives, and not
    at all when its free positions avoid D: every other avoiding filling is
    a strict subset of them, with fewer 1s, and the run would hold one
    shadow, so it would refuse nothing.  The runs step a dict of shadows,
    not the kernel's compiled ids: they are short, start from arbitrary
    shadows and mask their tails, so an id table built for one does not
    amortize.
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
            free = whole ^ start  # the positions no context 1 forbids
            entry = runs[start] = _entry(free) if _mask_avoids(free, distances) else _run_line(
                model, {start: (0, 0, 0)}, 0, chain(repeat(model.grow, full), tail))[0]
        return entry

    return run


def improve_at(bits: str, position: int, patch_length: int, distances: DistanceSet) -> str:
    """Rewrite the patch at `position` to the best filling for its contexts.

    The result's germ is at least the input's, strictly greater when the
    patch changes, and the result is still avoiding.  Positions too close to
    the ends to carry full contexts are rejected.
    """
    line = _checked_line(bits, patch_length, distances)
    _check_natural(position, "position", 0)
    norm = distances.norm
    if position < norm or position + patch_length + norm > len(bits):
        raise ValueError(f"position {position} out of range for patch rewriting")
    _sweep(line, position, position, patch_length, distances)
    return line.decode()


def sweep_to_fixpoint(bits: str, patch_length: int, distances: DistanceSet) -> str:
    """Apply patch rewrites until a full pass changes nothing.

    Round-robin over every position with full contexts.  The result is
    patch-maximal: no single rewrite at any such position can improve it,
    and its germ dominates the input's.
    """
    line, norm = _checked_line(bits, patch_length, distances), distances.norm
    _sweep(line, norm, len(bits) - patch_length - norm, patch_length, distances)
    return line.decode()


def _checked_line(bits: str, patch_length: int, distances: DistanceSet) -> bytearray:
    """`bits` as ASCII bytes, once it is a bit string that avoids D and the
    patch length is an int of at least the norm."""
    if not _mask_avoids(_to_mask(_check_bits(bits, "indicator string")), distances):
        raise ValueError("input string must avoid the distances")
    _check_patch_length(patch_length, distances)
    return bytearray(bits, "ascii")


def _check_patch_length(patch_length, distances: DistanceSet):
    if _check_natural(patch_length, "patch length") < distances.norm:
        raise ValueError("patch length must be at least the largest distance")


def _sweep(line: bytearray, first, last, patch_length, distances: DistanceSet, stop=False) -> bool:
    """Sweep the patches at positions first..last of `line`, ASCII 0s and 1s
    with full contexts there, in place to a fixpoint; True when any changed.
    With `stop`, True at the first change, which is checked but not made.

    When g = gcd(D) > 1 divides the patch length L, each residue class mod
    g is swept alone under D/g with patch length L/g: D's patch at p is
    class r's at ceil((p - r) / g) between norm/g class bits, and its best
    filling is theirs interleaved (`_interleave`).  D's passes visit each
    class's patches in order, where a repeat or a settled class changes
    nothing, so the result is D's, also where D's own runs would pass the
    cap; the cap's error still names D.  Otherwise the one line is `line`
    under D.

    A pass slides the window of the patch and its contexts along a line,
    reading one new bit per position and writing back only a changed
    window, so it is linear in the length.  The memo, keyed on the window
    with its patch cleared and shared by the classes, fills each distinct
    context pair once.  A fill that differs from its window is checked once
    to avoid D in the window, where any clash it makes lies; one equal to
    it avoids as the line does, so a fixpoint's sweep checks nothing.
    `_check_rewrite` checks each rewrite's germ rise.
    """
    if first > last:
        return False
    g, reduced = distances._classes
    if patch_length % g:
        g, reduced = 1, distances
    length, norm = patch_length // g, reduced.norm
    top, high, width = length + 2 * norm - 1, norm + length, (1 << norm) - 1
    run, keep, fillings = _patch_run(reduced, length), width | -1 << high, {}
    changed = False
    for r in range(g):
        sub, moved = line[r::g], True
        positions = range(-((r - first) // g), -((r - last) // g) + 1)  # ceil((p - r) / g)
        while moved:
            moved = False
            start = positions[0] - norm
            window = _to_mask(sub[start:start + top].decode()) << 1  # the first window but its top bit
            for position in positions:
                window = window >> 1 | (sub[position - norm + top] == 49) << top  # 49 is "1"
                key = window & keep
                replaced = fillings.get(key)
                if replaced is None:
                    replaced = fillings[key] = key | run(window & width, window >> high)[0] << norm
                    if replaced != window and not _mask_avoids(replaced, reduced):
                        raise AssertionError(f"patch rewrite at {position} broke avoidance")
                if replaced != window:
                    _check_rewrite(window, replaced, position)
                    if stop:
                        return True
                    sub[position - norm: position - norm + top + 1] = _to_bits(replaced, top + 1).encode()
                    window = replaced
                    moved = changed = True
        line[r::g] = sub
    return changed


def _check_rewrite(old: int, new: int, position: int):
    """Raise unless the rewrite of the window at `position` raised the germ,
    the strict rise that ends the sweep, at each rewrite (`_sweep` checks
    avoidance per fill).  Common bits cancel, so the differing bits' counts
    decide, then their position sums, and a tie on both `germ_greater`."""
    plus, minus = new & ~old, old & ~new
    rise = plus.bit_count() - minus.bit_count()
    if not rise:  # minus's position sum less plus's
        while plus:
            low, least = plus & -plus, minus & -minus
            rise += least.bit_length() - low.bit_length()
            plus, minus = plus ^ low, minus ^ least
    if rise < 0 or not rise and not germ_greater(_entry(new), _entry(old)):
        raise AssertionError(f"patch rewrite at {position} did not raise the germ")


def winner_windows_consistent(
    winner: RationalSet, distances: DistanceSet, patch_length: int
) -> bool:
    """The winner avoids D and every interior window of it already holds its
    best filling.

    Checked for every patch position across the preperiod and one full
    period, which by periodicity covers all positions.
    """
    _check_patch_length(patch_length, distances)
    if not is_avoiding(winner, distances):
        return False
    norm, pre, rep = distances.norm, len(winner.preperiod), len(winner.repetend)
    line = bytearray(winner.bits(pre + 2 * rep + patch_length + 2 * norm), "ascii")
    return not _sweep(line, norm, pre + rep + norm, patch_length, distances, stop=True)
