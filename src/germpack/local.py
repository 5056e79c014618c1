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
through, and `search` reads the strings of many lengths off it.  It steps
over an automaton it compiles for itself as it goes, an int id and a tuple
of successor ids per shadow reached, with the live entries in a list by
id, and takes each length's best in the pass that steps to it.  A patch,
whose length and right context are known, makes the same step, sibling
cut and all, over a dict of shadows (`_run_line`), bounded at both ends
(`_patch_run`): it starts from the shadow both contexts cast on the patch,
so no 1 meets either, and a 1 sets no shadow bit past the patch's last
position, so one entry is left.  `search` reads the string of one length
off a patch between all-zero contexts.  Patch runs keep the dict loop
because an id table does not pay there: run through one filled on demand,
the benchmark workloads were slower everywhere (`local_sweep` 1.28-1.39x,
`two_block` 1.16-1.22x, `census` 1.15-1.30x), since those runs are short,
start from arbitrary shadows and mask their tails, so a table built for
one does not amortize.

No distance links positions in different residue classes mod g = gcd(D),
so when g > 1 a D-avoiding set is g independent D/g-avoiding sets, and the
germ-best string of D interleaves those of D/g (`_interleave`): the
kernel and the one-length run (`_best_entry`) step D/g.  Patch runs
between other contexts stay on D: a context pair would split into g runs
per miss, which costs more than the short bounded runs it saves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from math import comb

from .sets import (
    DistanceSet, RationalSet, _check_bits, _check_natural, _mask_avoids, _to_bits, _to_mask,
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

    The step loop of `_run_line` from shadow 0 (no 1s before position 0),
    with every shadow bit kept, so any continuation may follow, but over a
    shadow automaton the kernel compiles for itself as it goes: each shadow
    reached gets an int id, and on its first step from there a successor
    tuple (`_compile`): the id its 0 leads to, the id its 1 leads to (-1
    for an odd shadow, where no 1 fits) and the id of its sibling s | 1
    (0, an id that is never live, until that shadow is reached, when `_id`
    patches it in).  `layer` holds the live entries by id, None elsewhere,
    and `live` their ids.  Only the ids reached are compiled, never the
    closure, so a norm too large for the cap costs no more than the
    shadows visited.  `bests[n]` is the germ-best (mask, ones,
    position-sum) entry after n positions, taken in the same pass that
    steps to n, so one kernel serves a call that asks many lengths in any
    order.  A shadow has norm bits, so 2**norm of them is a ceiling.  A
    patch, whose length and right context are known, runs `_patch_run`
    instead.  The automaton lives on the kernel, which a call builds for
    itself, so every call compiles its own.

    When g = gcd(D) > 1 no distance links positions in different residue
    classes mod g, so D's germ-best strings interleave those of D/g
    (`_interleave`), which `classes`, a kernel of D/g, steps; `bests`,
    `entry` and `model` (the two-block walk reads its `grow`) stay D's.
    """

    def __init__(self, distances: DistanceSet):
        self.distances = distances
        self.model = distances._windows
        self.bests = [(0, 0, 0)]
        self.ids = {0: 1}  # shadow -> id; id 0 is never live
        self.shadows = [-1, 0]  # id -> shadow
        self.succ: list = [None, None]  # id -> (zero, one, sibling), None until compiled
        self.layer: list = [None, (0, 0, 0)]
        self.spare: list = [None, None]  # the next layer, all None between steps
        self.live = [1]
        g, reduced = distances._classes
        self.classes = LineKernel(reduced) if g > 1 else None

    @property
    def states(self) -> dict:
        """The live entries by shadow, as `_run_line` keeps them."""
        return {self.shadows[i]: self.layer[i] for i in self.live}

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
        """Grow the live entries by position `pos`, as `_run_line` does, and
        return the germ-best of the new layer.

        A 0 leaves an entry as it was, so the best that ends in a 0 is the
        last best, and only entries that end in a new 1 can pass it.
        """
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
        """The successor tuple of id i, giving each shadow it reaches an id."""
        shadow = self.shadows[i]
        step = (self._id(shadow >> 1), -1, 0) if shadow & 1 else (
            self._id(shadow >> 1), self._id(shadow >> 1 | self.model.grow),
            self.ids.get(shadow | 1, 0))
        self.succ[i] = step
        return step

    def _id(self, shadow: int) -> int:
        """The shadow's id, a new one on first sight, patched into the
        sibling slot of its even partner when the shadow is odd."""
        i = self.ids.get(shadow)
        if i is None:
            i = self.ids[shadow] = len(self.shadows)
            self.shadows.append(shadow)
            self.succ.append(None)
            self.layer.append(None)
            self.spare.append(None)
            partner = self.ids.get(shadow ^ 1) if shadow & 1 else None
            if partner is not None and self.succ[partner] is not None:
                zero, one, _ = self.succ[partner]
                self.succ[partner] = (zero, one, i)
        return i


def _interleave(distances: DistanceSet, length: int, reduced_entry) -> tuple[int, int, int]:
    """D's germ-best entry of `length` positions from `reduced_entry(m)`,
    D/g's of m positions, g = gcd(D): class r, the positions r + g·i, holds
    D/g's best of ceil((length - r) / g) positions (q + 1 for r < rem, else
    q), spread to stride g, and adds r·ones + g·position-sum."""
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
    """The germ-best entry of one length: D/g's patch runs between all-zero
    contexts (`_patch_run`), interleaved (`_interleave`)."""
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
    """`refill(window)`: a window of norm + patch + norm bits (bit j is
    position j of the window) with the patch rewritten to the best filling
    for its contexts, the norm bits either side, each distinct pair computed
    once and each distinct start shadow run once (`_patch_run`).

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
    run = None

    def refill(window: int) -> int:
        nonlocal run
        left, right = window & width, window >> (norm + patch_length)
        patch = fillings.get((left, right))
        if patch is None:
            run = run or _patch_run(distances, patch_length)
            patch = fillings[left, right] = run(left, right)[0]
        return left | patch << norm | right << (norm + patch_length)

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
    norm = distances.norm
    if position < norm or position + patch_length + norm > len(bits):
        raise ValueError(f"position {position} out of range for patch rewriting")
    start = position - norm
    window = mask >> start & ((1 << (patch_length + 2 * norm)) - 1)
    return _to_bits(mask ^ (window ^ refill(window)) << start, len(bits))


def sweep_to_fixpoint(bits: str, patch_length: int, distances: DistanceSet) -> str:
    """Apply patch rewrites until a full pass changes nothing.

    Round-robin over every position with full contexts.  The result is
    patch-maximal: no single rewrite at any such position can improve it,
    and its germ dominates the input's.  Each context pair's best filling is
    computed once, by one patch run per distinct start shadow.  A pass
    slides a window of the patch and its contexts along the string, reading
    one new bit per position and writing back only a window that changed,
    so a pass is linear in the string's length.
    """
    if not _mask_avoids(_to_mask(_check_bits(bits, "indicator string")), distances):
        raise ValueError("input string must avoid the distances")
    refill = _patch_filler(distances, patch_length)
    norm = distances.norm
    positions = range(norm, len(bits) - patch_length - norm + 1)
    line, top = bytearray(bits, "ascii"), patch_length + 2 * norm - 1
    changed = bool(positions)
    while changed:
        changed = False
        window = _to_mask(line[:top].decode()) << 1  # the first window but its top bit
        for position in positions:
            window = window >> 1 | (line[position - norm + top] == 49) << top  # 49 is "1"
            replaced = refill(window)
            if replaced != window:
                _check_rewrite(window, replaced, position, patch_length, distances)
                line[position - norm: position - norm + top + 1] = _to_bits(replaced, top + 1).encode()
                window = replaced
                changed = True
    return line.decode()


def _check_rewrite(old, new, position, patch_length, distances):
    """Raise unless the rewrite of the window at `position` (norm + patch +
    norm bits) raised the germ and kept the window avoiding.

    The strict rise is what ends the sweep.  Only pairs within norm of the
    patch can clash, so the patch and its contexts suffice.
    """
    norm, hole = distances.norm, (1 << patch_length) - 1
    if not germ_greater(_entry(new >> norm & hole), _entry(old >> norm & hole)):
        raise AssertionError(f"patch rewrite at {position} did not raise the germ")
    if not _mask_avoids(new, distances):
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
    line, whole = _to_mask(winner.bits(span)), (1 << (patch_length + 2 * norm)) - 1
    refill = _patch_filler(distances, patch_length)
    windows = (line >> (position - norm) & whole for position in range(norm, pre + rep + norm + 1))
    return all(refill(window) == window for window in windows)
