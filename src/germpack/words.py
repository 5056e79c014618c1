"""Block coding of indicator sequences into letters and circular words.

Windowing an indicator sequence with a block of length m turns it into a
stream of m-bit letters in which consecutive letters overlap by m-1 bits
(the successor relation).  A letter is a consonant when its first bit is 1,
a vowel otherwise, and it is legal for a forbidden-distance set when its own
1-positions avoid the distances; with m at least norm+1 the whole sequence
avoids the distances exactly when every letter is legal.

A circular word is a letter run whose first and last letters coincide; runs
between consecutive occurrences of an anchor letter decompose a stream into
primitive circular words.  Repeating a circular word forever yields an
eventually periodic set whose germ is the word's consonant polynomial over
1 - q**length, which induces a total germ order on circular words.
"""

from __future__ import annotations

from dataclasses import dataclass

from .germs import IntPolynomial, RationalGF, germ_compare
from .sets import DistanceSet, RationalSet, _check_bits, _check_natural, is_avoiding


@dataclass(frozen=True)
class Letter:
    """A fixed-length window of indicator bits."""

    bits: str

    def __post_init__(self):
        _check_bits(self.bits, "letter bits")
        if not self.bits:
            raise ValueError("letter must have at least one bit")

    @property
    def block_length(self) -> int:
        return len(self.bits)

    @property
    def is_consonant(self) -> bool:
        return self.bits[0] == "1"

    @property
    def is_vowel(self) -> bool:
        return self.bits[0] == "0"

    def __str__(self) -> str:
        return self.bits


def default_block_length(distances: DistanceSet) -> int:
    """Smallest supported block length, one past the largest distance."""
    return distances.norm + 1


def block_encode(source, block_length: int, count: int | None = None) -> tuple[Letter, ...]:
    """Letters of the m-block encoding: letter n holds bits n .. n+m-1.

    `source` is a RationalSet or a finite indicator string extended
    periodically.  By default one full cycle plus one letter is produced
    (so a purely periodic source starts and ends with the same letter).
    """
    _check_natural(block_length, "block length")
    if isinstance(source, RationalSet):
        span = len(source.preperiod) + len(source.repetend)
    else:
        span = len(_check_bits(source, "indicator string"))
        if span < block_length:
            raise ValueError("finite input shorter than the block length")
        source = RationalSet("", source)  # the same periodic extension
    count = span + 1 if count is None else _check_natural(count, "count", 0)
    window = source.bits(count + block_length - 1)
    return tuple(Letter(window[n: n + block_length]) for n in range(count))


def is_legal(letter: Letter, distances: DistanceSet) -> bool:
    """True iff the letter's own 1-positions avoid the forbidden distances.

    Blocks shorter than norm+1 cannot witness every violation and are
    rejected as unsupported.
    """
    if letter.block_length < default_block_length(distances):
        raise ValueError(
            f"block length {letter.block_length} unsupported: "
            f"need at least {default_block_length(distances)}"
        )
    return is_avoiding(letter.bits, distances)


def is_successor(a: Letter, b: Letter) -> bool:
    """True iff b can follow a: b's first m-1 bits equal a's last m-1."""
    if a.block_length != b.block_length:
        raise ValueError("letters must share a block length")
    return b.bits[:-1] == a.bits[1:]


@dataclass(frozen=True)
class CircularWord:
    """A letter run whose first and last letters coincide.

    The junction letter is stored at both ends but counted once: the length
    is one less than the number of stored letters.  Consecutive letters must
    satisfy the successor relation, which holds automatically for runs cut
    from a block encoding.
    """

    letters: tuple[Letter, ...]

    def __post_init__(self):
        ls = tuple(self.letters)
        if len(ls) < 2:
            raise ValueError("circular word needs at least two stored letters")
        if ls[0] != ls[-1]:
            raise ValueError("first and last letters must coincide")
        for a, b in zip(ls, ls[1:]):
            if not is_successor(a, b):
                raise ValueError(f"letter {b} cannot follow {a}")
        object.__setattr__(self, "letters", ls)

    @classmethod
    def from_bits(cls, bits: str, block_length: int) -> CircularWord:
        """Close the periodic extension of `bits` into one full circular word."""
        return cls(block_encode(bits, block_length))

    @property
    def length(self) -> int:
        return len(self.letters) - 1

    @property
    def first(self) -> Letter:
        return self.letters[0]

    @property
    def last(self) -> Letter:
        return self.letters[-1]

    def concat(self, other: CircularWord) -> CircularWord:
        """Join at the shared junction letter: drop our final copy, append other."""
        if self.last != other.first:
            raise ValueError("junction letters do not match")
        return CircularWord(self.letters[:-1] + other.letters)

    def consonant_pattern(self) -> tuple[int, ...]:
        """Consonant indicator of the first `length` letters."""
        return tuple(1 if l.is_consonant else 0 for l in self.letters[:-1])

    def germ(self) -> RationalGF:
        """Germ of the word repeated forever: consonant polynomial / (1 - q**length)."""
        return RationalGF(IntPolynomial(self.consonant_pattern()), self.length)


def circular_compare(c: CircularWord, d: CircularWord) -> int:
    """Germ order on circular words via their repeated-forever germs."""
    return germ_compare(c.germ(), d.germ())


def circular_decompose(letters, anchor: Letter | None = None):
    """Split a letter stream into a prefix and primitive circular words.

    Cuts at every occurrence of the anchor (default: the first letter that
    occurs twice in the stream); each piece runs from one occurrence to the
    next, so it contains the anchor only at its ends.  Letters after the last
    occurrence are discarded.  Raises if no letter recurs, or the given
    anchor occurs fewer than twice.
    """
    letters = tuple(letters)
    if anchor is None:
        counts: dict[Letter, int] = {}
        for letter in letters:
            counts[letter] = counts.get(letter, 0) + 1
        anchor = next((l for l in letters if counts[l] >= 2), None)
        if anchor is None:
            raise ValueError("no letter recurs in the window")
    positions = [i for i, letter in enumerate(letters) if letter == anchor]
    if len(positions) < 2:
        raise ValueError("anchor occurs fewer than twice in the window")
    prefix = letters[: positions[0]]
    words = [
        CircularWord(letters[a: b + 1]) for a, b in zip(positions, positions[1:])
    ]
    return prefix, words
