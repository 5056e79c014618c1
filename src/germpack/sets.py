"""Eventually periodic subsets of the naturals and their germ-order toolkit.

A set is stored as an indicator bit string split into a finite preperiod and
a repetend that repeats forever.  The representation is canonicalized on
construction (primitive repetend, shortest preperiod), so two values are ==
exactly when they denote the same set.

Also here: forbidden-distance sets, the avoidance predicate, the shadow
model of the avoidance automaton that the line DPs step on, the greedy
walk of that model with period detection, translation, the generating function,
and the two-coefficient valuation (density, constant term) that refines
density comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import sub

from .germs import (
    IntPolynomial,
    RationalGF,
    _BIT_VALUES,
    _a0_numerator,
    _leading_gap,
    _sums,
    _term_sign,
)


def _check_bits(bits: str, what: str) -> str:
    if not isinstance(bits, str) or bits.strip("01"):
        raise ValueError(f"{what} must be a string of 0s and 1s, got {bits!r}")
    return bits


def _check_natural(value, what: str, least: int = 1):
    """Raise unless `value` is an int (bools refused) of at least `least`, 0 or 1."""
    if type(value) is not int or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{what} must be a {kind} integer, got {value!r}")
    return value


def _to_mask(bits: str) -> int:
    """The int whose bit i is position i of a checked bit string."""
    return int(bits[::-1], 2) if bits else 0


def _to_bits(mask: int, length: int) -> str:
    """The bit string of the given length whose position i is bit i of mask."""
    return format(mask, f"0{length}b")[::-1] if length else ""


def _mask_avoids(mask: int, distances: DistanceSet) -> bool:
    """No two 1s of the mask lie a forbidden distance apart."""
    for d in distances.distances:
        if mask & mask >> d:
            return False
    return True


def _avoids_forever(pre: int, start: int, rep: int, period: int, distances: DistanceSet) -> bool:
    """The set with the bits `pre` below `start`, then the `period` bits `rep`
    repeated forever, avoids the distances.

    A clash i < j with i at or past `start` + `period` moves back a period to
    a clash, so the first clash has i below `start` + `period` and j below
    that plus the norm: norm + period bits of repeats hold it.  They are built
    by doubling, linear in their length.
    """
    tail, width = rep, period
    while width < distances.norm + period:
        tail |= tail << width
        width *= 2
    return _mask_avoids(pre | tail << start, distances)


# The most shadow bits a line DP may hold: 2**16 shadows of 16 bits, so every
# norm up to 16 fits whole (a DP holds at most 2**norm shadows).  A distance
# set that could pass it (a lone large distance forbids almost nothing, and
# each shadow is a norm-bit int) is refused before the step that might.
MAX_WINDOW_BITS = 16 << 16


def _brief(n: int) -> str:
    """n in decimal up to 64 bits, past that its bit length: a message with a
    huge number stays short, and no decimal string of it is ever made."""
    return str(n) if n.bit_length() <= 64 else f"<{n.bit_length()}-bit number>"


class _WindowModel:
    """The avoidance automaton, whose state is the shadow of the 1s placed.

    Bit j of the shadow at length n is set when position n + j lies a
    forbidden distance after a 1 before n, so a new 1 fits in s iff not
    s & 1, and the successor of (s, bit) is s >> 1 | bit * grow.  One shadow
    admits one set of continuations, and distinct shadows differ on a lone
    1.  A line DP may step from at most `most` shadows (of norm bits; a step
    at most doubles them), and the greedy walk record as many; a norm that
    no step fits is refused on construction.  A refusal names `named`, the
    caller's distances when these are their residue-class reduction.
    """

    __slots__ = ("distances", "norm", "most", "grow")

    def __init__(self, distances: DistanceSet, named: DistanceSet | None = None):
        norm = distances.norm
        self.distances, self.norm = named or distances, norm
        self.most = 1 << norm if norm <= 16 else MAX_WINDOW_BITS // (2 * norm)
        if not self.most:  # before the norm-bit ints below
            self.refuse(1, 1)
        ahead = bytearray(b"0") * norm  # position d - 1: a forbidden distance ahead
        for d in distances:
            ahead[d - 1] = ord("1")
        self.grow = _to_mask(ahead.decode())  # linear, where a sum of shifted bits is quadratic

    def refuse(self, shadows: int, length: int):
        """Raise the cap's ValueError for `shadows` shadows stepping to `length`."""
        d = self.distances.distances  # past eight, elided, so the message stays short
        listed = f"{{{','.join(map(_brief, d))}}}" if len(d) <= 8 else (
            f"{{{_brief(d[0])},{_brief(d[1])},...,{_brief(d[-1])}}} ({len(d)} in all)")
        raise ValueError(
            f"distances {listed} need up to {2 * shadows} line-DP "
            f"shadows of {_brief(self.norm)} bits at length {length}, over the cap of "
            f"{MAX_WINDOW_BITS} shadow bits"
        )

    def live(self, remaining: int) -> int:
        """The shadow bits that one of the next `remaining` positions can meet."""
        return (1 << min(remaining, self.norm)) - 1


@dataclass(frozen=True)
class DistanceSet:
    """A finite set of forbidden distances (positive integers).

    May be empty, in which case nothing is forbidden.  Input is sorted and
    deduplicated on construction; non-positive or non-integer entries are
    rejected.
    """

    distances: tuple[int, ...] = ()

    def __post_init__(self):
        entries = tuple(self.distances)
        for d in entries:  # before sorting, which would raise TypeError on a stray type
            if not isinstance(d, int) or isinstance(d, bool) or d < 1:
                raise ValueError(f"forbidden distances must be positive integers, got {d!r}")
        object.__setattr__(self, "distances", tuple(sorted(set(entries))))

    @classmethod
    def of(cls, *distances: int) -> DistanceSet:
        return cls(tuple(distances))

    @classmethod
    def from_text(cls, text: str) -> DistanceSet:
        """Parse a comma list like "3,5"; empty/blank text means empty set."""
        text = text.strip()
        if not text:
            return cls(())
        try:
            return cls(tuple(int(part) for part in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"bad distance list {text!r}: {exc}") from None

    def to_text(self) -> str:
        return ",".join(str(d) for d in self.distances)

    @property
    def norm(self) -> int:
        """Largest forbidden distance; 0 for the empty set."""
        return self.distances[-1] if self.distances else 0

    def __iter__(self):
        return iter(self.distances)

    def __len__(self) -> int:
        return len(self.distances)

    @cached_property
    def _windows(self) -> _WindowModel:
        """The window model of these distances, built once per instance."""
        return _WindowModel(self)

    @cached_property
    def _classes(self) -> tuple[int, DistanceSet]:
        """(g, D/g) for g the gcd of the distances (1 and D itself when it is
        1), built once per instance; the window model of D/g names D."""
        g = gcd(*self.distances)
        if g <= 1:
            return 1, self
        reduced = DistanceSet(tuple(d // g for d in self.distances))
        object.__setattr__(reduced, "_windows", _WindowModel(reduced, self))
        return g, reduced


def _primitive_root(word: str) -> str:
    """Shortest u with word == u * k: word first recurs in word + word at |u|."""
    return word[:(word + word).find(word, 1)]


@dataclass(frozen=True)
class RationalSet:
    """An eventually periodic subset of the naturals, canonical on construction.

    The indicator sequence is `preperiod` followed by `repetend` repeated
    forever.  Canonical means: the repetend is primitive (not a power of a
    shorter string) and the preperiod is as short as possible.  Finite sets
    end up with repetend "0"; the full set of naturals is ("", "1").
    """

    preperiod: str
    repetend: str

    def __post_init__(self):
        pre = _check_bits(self.preperiod, "preperiod")
        rep = _check_bits(self.repetend, "repetend")
        if not rep:
            raise ValueError("repetend must be nonempty")
        rep = _primitive_root(rep)
        n, p = len(pre), len(rep)
        tail = 0  # the preperiod's last bits that repeat the repetend backwards
        while tail < n and pre[n - 1 - tail] == rep[~tail % p]:
            tail += 1
        turn = p - tail % p  # each bit dropped turns the repetend right by one
        pre, rep = pre[:n - tail], rep[turn:] + rep[:turn]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "repetend", rep)

    @classmethod
    def from_text(cls, text: str) -> RationalSet:
        """Parse "pre|rep", e.g. "|10" for the evens or "111|0" for {0,1,2}."""
        if "|" not in text:
            raise ValueError(f"set text must look like 'pre|rep', got {text!r}")
        pre, _, rep = text.partition("|")
        return cls(pre, rep)

    def to_text(self) -> str:
        return f"{self.preperiod}|{self.repetend}"

    @classmethod
    def empty(cls) -> RationalSet:
        return cls("", "0")

    @classmethod
    def naturals(cls) -> RationalSet:
        return cls("", "1")

    @classmethod
    def from_finite(cls, elements) -> RationalSet:
        """The finite set containing the given naturals."""
        elems = sorted({_check_natural(n, "set element", 0) for n in elements})
        if not elems:
            return cls.empty()
        bits = ["0"] * (elems[-1] + 1)
        for n in elems:
            bits[n] = "1"
        return cls("".join(bits), "0")

    @classmethod
    def arithmetic(cls, first: int, step: int) -> RationalSet:
        """The progression {first, first+step, first+2*step, ...}."""
        _check_natural(first, "first", 0)
        _check_natural(step, "step")
        return cls("0" * first, "1" + "0" * (step - 1))

    def __contains__(self, n) -> bool:
        if not isinstance(n, int) or n < 0:
            return False
        if n < len(self.preperiod):
            return self.preperiod[n] == "1"
        return self.repetend[(n - len(self.preperiod)) % len(self.repetend)] == "1"

    def bits(self, count: int) -> str:
        """The first `count` indicator bits."""
        pre, rep = self.preperiod, self.repetend
        if _check_natural(count, "count", 0) <= len(pre):
            return pre[:count]
        tail = count - len(pre)
        reps = tail // len(rep) + 1
        return (pre + rep * reps)[:count]

    @property
    def is_empty(self) -> bool:
        return self.repetend == "0" and "1" not in self.preperiod

    def elements(self, limit: int):
        """An iterator over the members below `limit`, which is checked at once."""
        return (n for n, bit in enumerate(self.bits(limit)) if bit == "1")

    @cached_property
    def _moments(self) -> tuple[int, int, int]:
        """(N(1), N'(1), d) of generating_function(self) = N(q)/(1 - q**d), off
        the strings, built once per instance."""
        # N = pre(q)(1 - q^d) + q^m rep(q), m = |pre|: N'(1) = m ones(rep) + possum(rep) - d ones(pre)
        pre, rep = self.preperiod, self.repetend
        ones, possum = _sums(rep.encode().translate(_BIT_VALUES))
        return ones, len(pre) * ones + possum - len(rep) * pre.count("1"), len(rep)


def generating_function(s: RationalSet) -> RationalGF:
    """Exact rational generating function sum_{n in S} q**n.

    Written over the denominator 1 - q**d, d = len(repetend), the numerator
    pre(q)(1 - q**d) + q**len(pre) rep(q) has coefficient i bit i of pre + rep
    less bit i - d of pre: one pass over ASCII codes, which differ as bits do.
    """
    pre, d = s.preperiod, len(s.repetend)
    numerator = map(sub, (pre + s.repetend).encode(), ("0" * d + pre).encode())
    gf = RationalGF(IntPolynomial(tuple(numerator)), d)
    object.__setattr__(gf, "_moments", s._moments)  # the germ comparisons read it
    return gf


def is_avoiding(subject, distances: DistanceSet) -> bool:
    """True iff no two members differ by a forbidden distance.

    `subject` is a finite indicator string or a RationalSet, whose check is
    `_avoids_forever`.
    """
    if isinstance(subject, RationalSet):
        pre, rep = subject.preperiod, subject.repetend
        return _avoids_forever(_to_mask(pre), len(pre), _to_mask(rep), len(rep), distances)
    return _mask_avoids(_to_mask(_check_bits(subject, "indicator string")), distances)


def greedy_avoiding(distances: DistanceSet, horizon: int):
    """First-fit avoiding set: scan 0, 1, 2, ... and keep n when legal.

    Returns (bits, detected) where bits is the indicator string of the first
    `horizon` naturals and detected is the eventually periodic set proven to
    continue it, or None if no proof was found within the horizon.  The walk
    steps the shadow of `_WindowModel`, which alone decides every later
    bit, so the first shadow that recurs, from step 0 on, proves the period
    and the detected set supplies the bits from there.  A walk that would
    record more shadows than a line-DP step may start from is refused at the
    step the line DP refuses (none is up to norm 16, which has only 2**norm
    shadows).

    When g = gcd(D) > 1 greedy fills each residue class mod g as D/g's
    greedy fills the naturals (`local._interleave`), so D's walk is D/g's
    with each bit repeated g times, over ceil(horizon / g) steps: a lone
    large distance walks the two shadows of {1}.
    """
    _check_natural(horizon, "horizon")
    g, reduced = distances._classes
    if g > 1:
        bits, detected = greedy_avoiding(reduced, -(-horizon // g))

        def spread(text: str) -> str:
            return "".join(bit * g for bit in text)

        return spread(bits)[:horizon], detected and RationalSet(
            spread(detected.preperiod), spread(detected.repetend))
    model = distances._windows
    bits: list[str] = []
    seen: dict[int, int] = {}
    shadow = 0
    for n in range(horizon + 1):  # the shadow after the final bit may close the loop
        start = seen.setdefault(shadow, n)
        if start < n:
            detected = RationalSet("".join(bits[:start]), "".join(bits[start:]))
            return detected.bits(horizon), detected
        if len(seen) > model.most:
            model.refuse(len(seen), n + 1)
        fits = not shadow & 1
        bits.append("1" if fits else "0")
        shadow = shadow >> 1 | model.grow if fits else shadow >> 1
    return "".join(bits[:horizon]), None


def shift(s: RationalSet, offset: int) -> RationalSet:
    """The translated set S + offset."""
    return RationalSet("0" * _check_natural(offset, "offset", 0) + s.preperiod, s.repetend)


@dataclass(frozen=True, order=True)
class Valuation:
    """Truncated germ of a set: (density, constant term), ordered lexicographically.

    For sets these pairs only come in three shapes, enforced here: (0, k)
    for finite sets of size k, (1, -k) for cofinite sets missing k elements,
    and (p, anything) with 0 < p < 1 otherwise.
    """

    density: Fraction
    a0: Fraction

    def __post_init__(self):
        for name, value in (("density", self.density), ("a0", self.a0)):
            if type(value) is int:  # bools, floats and strs refused: exact or nothing
                object.__setattr__(self, name, Fraction(value))
            elif type(value) is not Fraction:
                raise ValueError(f"{name} must be an int or a Fraction, got {value!r}")
        (dn, dd), (an, ad) = self.density.as_integer_ratio(), self.a0.as_integer_ratio()
        if not (0 < dn < dd or ad == 1 and (an >= 0 if dn == 0 else dn == dd and an <= 0)):
            raise ValueError(f"impossible valuation pair ({self.density}, {self.a0})")

    def classify(self) -> str:
        if self.density == 0:
            return "finite"
        if self.density == 1:
            return "cofinite"
        return "fractional"


def valuation(s: RationalSet) -> Valuation:
    """Density and constant term of the set's germ, exactly, by `germs`' closed forms."""
    n1, dn1, d = s._moments
    return Valuation(Fraction(n1, d), Fraction(_a0_numerator(n1, dn1, d), 2 * d))


def set_compare(a: RationalSet, b: RationalSet) -> int:
    """Germ order on sets; EQUAL exactly when the canonical forms coincide."""
    return _term_sign(_leading_gap(
        a._moments, b._moments, lambda: (generating_function(a), generating_function(b))))
