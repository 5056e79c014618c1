"""Brute-force ground truth for small instances.

Exhaustively enumerates avoiding strings and periodic avoiding sets and picks
germ-maxima by direct comparison.  A reference for the test suite and the
`germpack oracle` command: the search and certificate checks never call it,
and it compares by the polynomial comparator, the line kernel in `local` by
its own closed form, so the two routes stay independent checks of each other.
Desk-scale only: lengths past MAX_LENGTH and periods past MAX_PERIOD are
refused.
"""

from __future__ import annotations

from .germs import GREATER, IntPolynomial, poly_germ_compare
from .sets import DistanceSet, RationalSet, _check_natural, is_avoiding, set_compare

MAX_LENGTH = 32
MAX_PERIOD = 24


def enumerate_avoiding(distances: DistanceSet, length: int):
    """Yield every avoiding string of the given length, lexicographically.

    Backtracking over positions; appending a 1 is checked against the last
    norm bits only, which is where any new violation must live.
    """
    if _check_natural(length, "length", 0) > MAX_LENGTH:
        raise ValueError(f"length {length} over the enumeration cap of {MAX_LENGTH}")
    dists = tuple(distances)
    prefix: list[str] = []

    def extend():
        if len(prefix) == length:
            yield "".join(prefix)
            return
        pos = len(prefix)
        prefix.append("0")
        yield from extend()
        prefix.pop()
        if all(d > pos or prefix[pos - d] == "0" for d in dists):
            prefix.append("1")
            yield from extend()
            prefix.pop()

    yield from extend()


def brute_best(distances: DistanceSet, length: int) -> str:
    """Germ-maximal avoiding string of the given length, by full enumeration."""
    _check_natural(length, "length")
    best = None
    best_poly = None
    for candidate in enumerate_avoiding(distances, length):
        poly = IntPolynomial.from_bits(candidate)
        if best is None or poly_germ_compare(poly, best_poly) == GREATER:
            best, best_poly = candidate, poly
    return best


def brute_best_periodic(distances: DistanceSet, max_period: int) -> RationalSet:
    """Germ-maximal purely periodic avoiding set with repetend up to max_period.

    Tries every repetend whose infinite repetition avoids the distances.  The
    empty set (all-zero repetend) is always a candidate, so a best always
    exists.
    """
    if _check_natural(max_period, "max period") > MAX_PERIOD:
        raise ValueError(f"period {max_period} over the enumeration cap of {MAX_PERIOD}")
    best = RationalSet.empty()
    for period in range(1, max_period + 1):
        for repetend in enumerate_avoiding(distances, period):
            candidate = RationalSet("", repetend)
            if not is_avoiding(candidate, distances):
                continue
            if set_compare(candidate, best) == GREATER:
                best = candidate
    return best
