"""Shared generators and independent mini-oracles for the test suite."""

from fractions import Fraction
from itertools import product
from math import comb

from germpack import (
    GREATER,
    CircularWord,
    DistanceSet,
    IntPolynomial,
    RationalGF,
    RationalSet,
    poly_germ_compare,
)


def random_bits(rng, length, one_prob=0.5):
    return "".join("1" if rng.random() < one_prob else "0" for _ in range(length))


def random_avoiding(rng, distances, length, one_prob=0.5):
    """Random avoiding string: flip a coin wherever a 1 is still legal."""
    bits = []
    for pos in range(length):
        legal = all(d > pos or bits[pos - d] == "0" for d in distances)
        bits.append("1" if legal and rng.random() < one_prob else "0")
    return "".join(bits)


def random_rational_set(rng, max_pre=6, max_rep=8):
    pre = random_bits(rng, rng.randrange(0, max_pre + 1))
    rep = random_bits(rng, rng.randrange(1, max_rep + 1))
    return RationalSet(pre, rep)


def random_gf(rng, max_degree=6, max_coeff=4, max_period=6):
    coeffs = tuple(rng.randint(-max_coeff, max_coeff) for _ in range(max_degree + 1))
    return RationalGF(IntPolynomial(coeffs), rng.randrange(1, max_period + 1))


def random_circular_word(rng, anchor_bits, extra_max=6):
    """Circular word over the anchor's block length starting with the anchor."""
    m = len(anchor_bits)
    body = anchor_bits + random_bits(rng, rng.randrange(0, extra_max + 1))
    return CircularWord.from_bits(body, m)


def t_expansion(coeffs):
    """Coefficients in t = 1-q by direct binomial transform (independent route)."""
    out = []
    for j in range(len(coeffs)):
        s = sum(c * comb(i, j) for i, c in enumerate(coeffs))
        out.append(-s if j % 2 else s)
    return out


def laurent_by_binomials(f, count):
    """First `count` Laurent coefficients of f, from binomial t-expansions.

    f = N/(1 - q^d) = (N(t)/u(t))/t with t*u(t) = 1 - (1-t)^d; the series N/u
    comes from truncated power-series division over the rationals.
    """
    num = t_expansion(f.numerator.coeffs)
    u = t_expansion((1,) + (0,) * (f.period - 1) + (-1,))[1:]
    out = []
    for n in range(count):
        acc = Fraction(num[n] if n < len(num) else 0)
        for i in range(1, min(n, len(u) - 1) + 1):
            acc -= u[i] * out[n - i]
        out.append(acc / u[0])
    return tuple(out)


def sign_by_evaluation(coeffs):
    """Sign near 1- by exact evaluation at a provably safe rational point.

    Past N with 1/N below every nonzero root of the t-form, the sign at
    q = 1 - 1/N equals the sign on all of (1 - 1/N, 1).  The bound comes
    from the lowest nonzero t-coefficient dominating the tail.
    """
    ts = t_expansion(coeffs)
    lowest = next((j for j, c in enumerate(ts) if c), None)
    if lowest is None:
        return 0
    tail = sum(abs(c) for c in ts[lowest + 1:])
    safe = tail // abs(ts[lowest]) + 2
    n = 2
    while n < safe:
        n *= 2
    q = Fraction(n - 1, n)
    value = 0
    for c in reversed(coeffs):
        value = value * q + c
    return (value > 0) - (value < 0)


def pairs_clash(bits, distances):
    """Avoidance by checking every pair of positions outright."""
    ones = [i for i, b in enumerate(bits) if b == "1"]
    return any(b - a in distances for i, a in enumerate(ones) for b in ones[i + 1:])


def brute_patch(left, right, length, distances):
    """Best filling between contexts by trying all 2**length patches."""
    best = None
    best_poly = None
    for combo in product("01", repeat=length):
        patch = "".join(combo)
        whole = left + patch + right
        clash = False
        for i, bit in enumerate(whole):
            if bit != "1":
                continue
            for d in distances:
                j = i + d
                if j < len(whole) and whole[j] == "1":
                    # only pairs touching the patch are the patch's fault
                    if len(left) <= i < len(left) + length or len(left) <= j < len(left) + length:
                        clash = True
            if clash:
                break
        if clash:
            continue
        poly = IntPolynomial.from_bits(patch)
        if best is None or poly_germ_compare(poly, best_poly) == GREATER:
            best, best_poly = patch, poly
    return best


def all_distance_sets(max_distance):
    """Every nonempty forbidden-distance set inside {1..max_distance}."""
    out = []
    for mask in range(1, 1 << max_distance):
        out.append(DistanceSet(tuple(d for d in range(1, max_distance + 1) if mask >> (d - 1) & 1)))
    return out
